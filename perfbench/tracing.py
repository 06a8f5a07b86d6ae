"""In-process runs of the workload commands, untraced and traced.

The traced run wraps public functions of the package from here, without
touching its source: each wrapper records a span (name, start, end, parent,
command id) in memory and adds per-layer counts at the same boundary.  A
function is wrapped under every module name it is looked up by, because
modules import each other's functions by name (``cli`` and ``verify``
hold their own ``quasi_act``, ``group`` and ``hilbert`` their own
``kernel_dimension``, which reaches ``linalg.rank`` through ``linalg``).

Scalar arithmetic is counted but not spanned: a span per ``Cyclotomic``
operation would cost more than the operation, so its time stays in the
self time of the span that called it (mostly the group actions).
"""

from __future__ import annotations

import importlib
import io
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from harness import SRC

# (module, attribute, span?)  A span is named after the module's last
# component and the attribute, e.g. "groebner.normal_form".
WRAPPED = (
    ("quasicov.cli", "main", True),
    ("quasicov.verify", "run_suite", True),
    ("quasicov.groebner", "buchberger", True),
    ("quasicov.groebner", "reduce_basis", True),
    ("quasicov.groebner", "normal_form", True),
    ("quasicov.groebner", "s_polynomial", True),
    ("quasicov.groebner", "standard_monomials", True),
    ("quasicov.qsym", "quasi_invariant_generators", True),
    ("quasicov.linalg", "rank", True),
    ("quasicov.hilbert", "coinvariant_kernel_dim", True),
    ("quasicov.group", "quasi_act", True),
    ("quasicov.group", "classical_act", True),
    ("quasicov.group", "fixed_space_dimension", True),
    ("quasicov.group", "enumerate_group", True),
    ("quasicov.group", "group_mul", False),
    ("quasicov.polynomials", "exponent_vectors", True),
    ("quasicov.polynomials", "parse_polynomial", True),
    ("quasicov.polynomials", "render_polynomial", True),
    ("quasicov.paths", "quotient_basis", True),
)

# Metrics reported by a traced run, in BENCHMARK.json order.
PER_LAYER = (
    "groebner.normal_form_s", "groebner.normal_form_calls", "groebner.normal_form_zero",
    "groebner.buchberger_self_s", "groebner.reduce_basis_self_s",
    "groebner.basis_in", "groebner.basis_out",
    "groebner.standard_monomials_s", "groebner.standard_monomials_out",
    "groebner.spairs_reduced", "groebner.spairs_zero", "groebner.spair_useful_ratio",
    "qsym.generators_s", "qsym.generators_out", "qsym.generator_terms_out",
    "linalg.rank_s", "linalg.rank_calls", "linalg.rows_in", "linalg.cols_in",
    "linalg.nonzeros_in", "linalg.density", "linalg.rank_out",
    "hilbert.kernel_build_self_s", "hilbert.kernel_calls",
    "group.quasi_act_s", "group.quasi_act_calls", "group.classical_act_s",
    "group.classical_act_calls", "group.act_terms_in", "group.group_mul_calls",
    "group.elements_enumerated", "group.fixed_space_self_s",
    "scalars.cyclotomic_new", "scalars.cyclotomic_inverse_calls",
    "polynomials.exponent_vectors_s", "polynomials.exponent_vectors_out",
    "polynomials.parse_s", "polynomials.render_s", "polynomials.render_calls",
    "paths.quotient_basis_s", "paths.vectors_out",
    "verify.self_s", "cli.main_s", "cli.self_s", "cli.output_bytes",
    "trace.overhead_s",
)

# metric -> (span name, "total" or "self")
SPAN_TIMES = {
    "groebner.normal_form_s": ("groebner.normal_form", "total"),
    "groebner.buchberger_self_s": ("groebner.buchberger", "self"),
    "groebner.reduce_basis_self_s": ("groebner.reduce_basis", "self"),
    "groebner.standard_monomials_s": ("groebner.standard_monomials", "total"),
    "qsym.generators_s": ("qsym.quasi_invariant_generators", "total"),
    "linalg.rank_s": ("linalg.rank", "total"),
    "hilbert.kernel_build_self_s": ("hilbert.coinvariant_kernel_dim", "self"),
    "group.quasi_act_s": ("group.quasi_act", "total"),
    "group.classical_act_s": ("group.classical_act", "total"),
    "group.fixed_space_self_s": ("group.fixed_space_dimension", "self"),
    "polynomials.exponent_vectors_s": ("polynomials.exponent_vectors", "total"),
    "polynomials.parse_s": ("polynomials.parse_polynomial", "total"),
    "polynomials.render_s": ("polynomials.render_polynomial", "total"),
    "paths.quotient_basis_s": ("paths.quotient_basis", "total"),
    "verify.self_s": ("verify.run_suite", "self"),
    "cli.main_s": ("cli.main", "total"),
    "cli.self_s": ("cli.main", "self"),
}


def import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("quasicov.cli")


def _modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "quasicov" or name.startswith("quasicov."))]


def clear_caches():
    """Make the next command start cold, like a fresh process."""
    groebner = sys.modules["quasicov.groebner"]
    groebner.quasi_ideal_basis.cache_clear()
    groebner.classical_ideal_basis.cache_clear()
    sys.modules["quasicov.scalars"].cyclotomic_polynomial.cache_clear()


class Tracer:
    """Spans and counts of one pass, kept in memory.

    A span is [name, start, end, parent index, command id, hook seconds]:
    hook seconds is time the tracer spent counting inside it after its
    children ended, which is left out of its self time.  ``counts`` is the
    counter of the current command; ``by_command`` keeps them all.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.by_command = []
        self.counts = Counter()
        self.command = -1
        self.last_spoly = None

    def begin(self, argv):
        """Start counting for the next command."""
        self.counts = Counter()
        self.by_command.append((argv, self.counts))
        self.command = len(self.by_command) - 1

    def total_counts(self):
        return sum((c for _, c in self.by_command), Counter())

    def wrap(self, name, fn, count, span):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        if not span:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(self, args, result)
                return result
            return counted

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, clock(), 0.0, parent, self.command, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if count is not None:
                count(self, args, result)
                if parent >= 0:
                    spans[parent][5] += clock() - record[2]
            return result

        return traced

    def install(self):
        """Wrap every name in WRAPPED and the Cyclotomic counters; return
        the patches so ``uninstall`` can undo them."""
        patches = []
        modules = _modules()
        for module, attr, span in WRAPPED:
            original = getattr(sys.modules[module], attr)
            name = f"{module.rsplit('.', 1)[1]}.{attr}"
            wrapper = self.wrap(name, original, COUNTS.get(attr), span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cyclotomic = sys.modules["quasicov.scalars"].Cyclotomic
        init, inverse = cyclotomic.__init__, cyclotomic.inverse
        counts = self.counts  # install is per command, like the counter

        def counted_init(obj, *args, **kwargs):
            counts["scalars.cyclotomic_new"] += 1
            init(obj, *args, **kwargs)

        def counted_inverse(obj):
            counts["scalars.cyclotomic_inverse_calls"] += 1
            return inverse(obj)

        patches += [(cyclotomic, "__init__", init), (cyclotomic, "inverse", inverse)]
        cyclotomic.__init__ = counted_init
        cyclotomic.inverse = counted_inverse
        return patches


def uninstall(patches):
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


# ---- counts taken at the wrapped boundaries ------------------------------

def _count_buchberger(tr, args, result):
    tr.counts["groebner.basis_in"] += sum(1 for g in args[0] if g.terms)


def _count_reduce_basis(tr, args, result):
    tr.counts["groebner.basis_out"] += len(result.generators)


def _count_normal_form(tr, args, result):
    tr.counts["groebner.normal_form_calls"] += 1
    zero = not result.terms
    tr.counts["groebner.normal_form_zero"] += zero
    if args[0] is tr.last_spoly:
        tr.counts["groebner.spairs_zero"] += zero
        tr.last_spoly = None


def _count_s_polynomial(tr, args, result):
    tr.counts["groebner.spairs_reduced"] += 1
    tr.last_spoly = result


def _count_standard_monomials(tr, args, result):
    tr.counts["groebner.standard_monomials_out"] += len(result.monomials)


def _count_generators(tr, args, result):
    tr.counts["qsym.generators_out"] += len(result)
    tr.counts["qsym.generator_terms_out"] += sum(len(g.terms) for g in result)


def _count_rank(tr, args, result):
    rows = [r for r in args[0] if any(r)]
    tr.counts["linalg.rank_calls"] += 1
    tr.counts["linalg.rank_out"] += result
    if rows:
        tr.counts["linalg.rows_in"] += len(rows)
        tr.counts["linalg.cols_in"] += len(rows[0])
        tr.counts["linalg.cells_in"] += len(rows) * len(rows[0])
        tr.counts["linalg.nonzeros_in"] += sum(1 for r in rows for v in r if v)


def _count_kernel(tr, args, result):
    tr.counts["hilbert.kernel_calls"] += 1


def _count_act(kind):
    def count(tr, args, result):
        tr.counts[f"group.{kind}_act_calls"] += 1
        tr.counts["group.act_terms_in"] += len(args[1].terms)
    return count


def _count_group_mul(tr, args, result):
    tr.counts["group.group_mul_calls"] += 1


def _count_enumerate_group(tr, args, result):
    tr.counts["group.elements_enumerated"] += len(result)


def _count_exponent_vectors(tr, args, result):
    tr.counts["polynomials.exponent_vectors_out"] += len(result)


def _count_render(tr, args, result):
    tr.counts["polynomials.render_calls"] += 1


def _count_quotient_basis(tr, args, result):
    tr.counts["paths.vectors_out"] += len(result)


COUNTS = {
    "buchberger": _count_buchberger,
    "reduce_basis": _count_reduce_basis,
    "normal_form": _count_normal_form,
    "s_polynomial": _count_s_polynomial,
    "standard_monomials": _count_standard_monomials,
    "quasi_invariant_generators": _count_generators,
    "rank": _count_rank,
    "coinvariant_kernel_dim": _count_kernel,
    "quasi_act": _count_act("quasi"),
    "classical_act": _count_act("classical"),
    "group_mul": _count_group_mul,
    "enumerate_group": _count_enumerate_group,
    "exponent_vectors": _count_exponent_vectors,
    "render_polynomial": _count_render,
    "quotient_basis": _count_quotient_basis,
}


# ---- executors -------------------------------------------------------------

class InProcess:
    """Runs a command through ``quasicov.cli.main`` in this process.

    With a tracer, the package is wrapped for the duration of each command,
    which gets its own command id and counter.  ``wall_s`` sums the time of
    the commands since ``reset``.
    """

    def __init__(self, tracer=None):
        self.cli = import_package()
        self.tracer = tracer
        self.reset()

    def reset(self):
        self.wall_s = 0.0

    def __call__(self, argv):
        clear_caches()
        stdout, stderr = io.StringIO(), io.StringIO()
        patches = []
        if self.tracer is not None:
            self.tracer.begin(argv)
            patches = self.tracer.install()
        start = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = self.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
        finally:
            self.wall_s += time.perf_counter() - start
            uninstall(patches)
        out = stdout.getvalue().encode()
        if self.tracer is not None:
            self.tracer.counts["cli.output_bytes"] += len(out)
        return code, out


def span_times(spans):
    """Total and self seconds per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own = Counter(), Counter()
    for i, (name, start, end, _, _, hook) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i] - hook
    return total, own


def layer_metrics(tracer):
    total, own = span_times(tracer.spans)
    counts = tracer.total_counts()
    metrics = {}
    for name in PER_LAYER:
        if name in SPAN_TIMES:
            span, kind = SPAN_TIMES[name]
            metrics[name] = (total if kind == "total" else own)[span]
        else:
            metrics[name] = counts[name]
    reduced = counts["groebner.spairs_reduced"]
    metrics["groebner.spair_useful_ratio"] = (
        (reduced - counts["groebner.spairs_zero"]) / reduced if reduced else 0.0
    )
    cells = counts["linalg.cells_in"]
    metrics["linalg.density"] = counts["linalg.nonzeros_in"] / cells if cells else 0.0
    return metrics


def layer_shares(tracer):
    """Self time per layer as a share of the traced commands' total time."""
    total, own = span_times(tracer.spans)
    whole = total["cli.main"]
    shares = Counter()
    for name, seconds in own.items():
        shares[name.split(".")[0]] += seconds / whole if whole else 0.0
    return dict(shares.most_common())


def per_command_counts(tracer):
    """Counts of each command, keyed by its command line."""
    return {" ".join(argv)[:120]: dict(sorted(c.items())) for argv, c in tracer.by_command}
