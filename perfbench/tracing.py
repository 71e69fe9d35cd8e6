"""Spans and work counters for the traced run.

`Tracer.install()` wraps library functions at the module attributes through
which they are called: the benchmark's own call sites and the import sites
inside the package (for example `ncquad.quadratic.rank`), plus three methods
on their classes. Wrapping happens in the traced process only and changes no
file. A wrapper records a span (name, start, end, parent, operation id) while
an operation is open and passes straight through otherwise, so the untimed
checks leave no spans. Spans stay in memory until the run ends.
"""

import time
from collections import Counter, defaultdict
from fractions import Fraction

from ncquad import cli, groebner, linalg, quadratic, sklyanin
from ncquad.scalars import PrimeField, ThetaRational, _ModPBase

import calibrate
import expect


def _cells(counts, args):
    rows = args[0]
    counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if len(rows) else 0)


def _basis_out(counts, result):
    counts["groebner.basis_elems"] += len(result.elements)
    bits = max((expect.scalar_bits(c) for e in result.elements for c in e.terms.values()), default=0)
    counts["groebner.max_coeff_bits"] = max(counts["groebner.max_coeff_bits"], bits)


def _hilbert_out(counts, result):
    counts["groebner.normal_words"] += sum(result)


def _levels_out(counts, result):
    counts["groebner.normal_words"] += sum(len(level) for level in result)


def _echelon_out(counts, result):
    counts["linalg.echelon.rows"] += 1
    counts["linalg.echelon.rank"] += bool(result)


def _orbit_out(counts, result):
    counts["sklyanin.orbit.points"] += len(result)


# span name -> (import sites as (module, attribute), pre hook, post hook)
FUNCTIONS = {
    "groebner.complete": ([groebner, quadratic, cli], "complete", None, _basis_out),
    "groebner.hilbert": ([groebner, quadratic, cli], "hilbert_coeffs", None, _hilbert_out),
    "groebner.normal_words_by_degree": ([quadratic], "normal_words_by_degree", None, _levels_out),
    "groebner.graded_dim_oracle": ([groebner, cli], "graded_dim_oracle", None, None),
    "linalg.rref": ([quadratic, sklyanin], "rref", _cells, None),
    "linalg.rank": ([quadratic], "rank", _cells, None),
    "linalg.nullspace": ([quadratic, linalg], "nullspace", _cells, None),
    "quadratic.dual_algebra": ([quadratic, cli], "dual_algebra", None, None),
    "quadratic.koszul_defect": ([quadratic, cli], "koszul_defect", None, None),
    "quadratic.dual_hypotheses": ([quadratic, cli], "dual_hypotheses", None, None),
    "quadratic.right_annihilator_dim": ([quadratic, cli], "right_annihilator_dim", None, None),
    "sklyanin.classify": ([sklyanin, cli], "classify", None, None),
    "sklyanin.are_isomorphic": ([sklyanin, cli], "are_isomorphic", None, None),
    "sklyanin.iso_group_orbit": ([sklyanin, cli], "iso_group_orbit", None, _orbit_out),
    "sklyanin.substitution_chain": ([sklyanin, cli], "substitution_chain", None, None),
    "sklyanin.coefficient_recursion": ([sklyanin, cli], "coefficient_recursion", None, None),
    "ncpoly.apply_sub": ([sklyanin], "apply_sub", None, None),
    "cli.run_command": ([cli], "run_command", None, None),
    "cli.parse_presentation": ([cli], "parse_presentation", None, None),
}
METHODS = {
    "quadratic.QuadraticAlgebra": (quadratic.QuadraticAlgebra, "__init__", None, None),
    "linalg.echelon": (linalg.SparseEchelon, "add", None, _echelon_out),
    "groebner.reduce": (groebner.GroebnerBasis, "reduce", None, None),
    "scalars.theta": (PrimeField, "theta", None, None),
}
# wrappers that each do one dense rref, reported together as linalg.rref.*
RREF_SPANS = ("linalg.rref", "linalg.rank", "linalg.nullspace")


class Tracer:
    """Span store, operation stack and work counters of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.counts = Counter()
        self._saved = []

    def wrap(self, fn, name, pre, post):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if pre:
                pre(self.counts, args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec = spans[idx]
                rec[1] = start
                rec[2] = end
            self.counts[name + ".calls"] += 1
            if post:
                post(self.counts, result)
            return result

        return traced

    def install(self):
        for name, (modules, attr, pre, post) in FUNCTIONS.items():
            for mod in modules:
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, name, pre, post))
        for name, (cls, attr, pre, post) in METHODS.items():
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name, pre, post))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def open_op(self, op_id, kind):
        """Start the root span of one operation."""
        self.op = op_id
        self.spans.append(["op." + kind, time.perf_counter(), 0.0, -1, op_id])
        self.stack.append(len(self.spans) - 1)

    def close_op(self):
        idx = self.stack.pop()
        self.spans[idx][2] = time.perf_counter()
        self.op = None


def span_times(spans, first, last):
    """Busy and self time per span name over spans[first:last]."""
    busy = defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent, _ in spans[first:last]:
        busy[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_t = defaultdict(float)
    for i in range(first, last):
        name, start, end = spans[i][:3]
        self_t[name] += (end - start) - child.get(i, 0.0)
    return busy, self_t


def layer_metrics(busy, self_t, counts, wall):
    """The per-layer metrics of one traced pass."""
    def layer_self(prefix):
        return sum(v for k, v in self_t.items() if k.startswith(prefix))

    rows = counts["linalg.echelon.rows"]
    m = {
        "groebner.complete.calls": counts["groebner.complete.calls"],
        "groebner.complete.busy_s": busy["groebner.complete"],
        "groebner.complete.self_s": self_t["groebner.complete"],
        "groebner.basis_elems": counts["groebner.basis_elems"],
        "groebner.max_coeff_bits": counts["groebner.max_coeff_bits"],
        "groebner.hilbert.busy_s": busy["groebner.hilbert"],
        "groebner.normal_words": counts["groebner.normal_words"],
        "groebner.graded_dim_oracle.busy_s": busy["groebner.graded_dim_oracle"],
        "groebner.reduce.calls": counts["groebner.reduce.calls"],
        "groebner.reduce.busy_s": busy["groebner.reduce"],
        "linalg.echelon.rows": rows,
        "linalg.echelon.rank": counts["linalg.echelon.rank"],
        "linalg.echelon.useful_ratio": counts["linalg.echelon.rank"] / rows if rows else 0.0,
        "linalg.echelon.busy_s": busy["linalg.echelon"],
        "linalg.rref.calls": sum(counts[k + ".calls"] for k in RREF_SPANS),
        "linalg.rref.cells": counts["linalg.rref.cells"],
        "linalg.rref.busy_s": sum(busy[k] for k in RREF_SPANS),
        "quadratic.koszul_defect.busy_s": busy["quadratic.koszul_defect"],
        "quadratic.dual_hypotheses.busy_s": busy["quadratic.dual_hypotheses"],
        "quadratic.right_annihilator_dim.busy_s": busy["quadratic.right_annihilator_dim"],
        "quadratic.self_s": layer_self("quadratic."),
        "sklyanin.classify.busy_s": busy["sklyanin.classify"],
        "sklyanin.are_isomorphic.busy_s": busy["sklyanin.are_isomorphic"],
        "sklyanin.iso_group_orbit.busy_s": busy["sklyanin.iso_group_orbit"],
        "sklyanin.substitution_chain.busy_s": busy["sklyanin.substitution_chain"],
        "sklyanin.coefficient_recursion.busy_s": busy["sklyanin.coefficient_recursion"],
        "sklyanin.self_s": layer_self("sklyanin."),
        "sklyanin.orbit.points": counts["sklyanin.orbit.points"],
        "ncpoly.apply_sub.calls": counts["ncpoly.apply_sub.calls"],
        "ncpoly.apply_sub.busy_s": busy["ncpoly.apply_sub"],
        "scalars.theta.calls": counts["scalars.theta.calls"],
        "scalars.theta.busy_s": busy["scalars.theta"],
        "cli.run_command.calls": counts["cli.run_command.calls"],
        "cli.run_command.busy_s": busy["cli.run_command"],
        "cli.parse_presentation.busy_s": busy["cli.parse_presentation"],
        "cli.bytes_out": counts["cli.bytes_out"],
        # time inside operations but outside every library span, plus the
        # loop between operations: what the layer self times leave over
        "trace.unattributed_s": wall - sum(v for k, v in self_t.items() if not k.startswith("op.")),
    }
    return m


# work counters that must repeat exactly between passes and between runs
WORK_COUNTERS = (
    "groebner.complete.calls",
    "groebner.basis_elems",
    "groebner.normal_words",
    "groebner.max_coeff_bits",
    "groebner.reduce.calls",
    "linalg.echelon.rows",
    "linalg.echelon.rank",
    "linalg.rref.calls",
    "linalg.rref.cells",
    "scalars.theta.calls",
    "sklyanin.orbit.points",
    "ncpoly.apply_sub.calls",
    "cli.run_command.calls",
    "cli.bytes_out",
)


# ---------------------------------------------------------------------------
# scalar arithmetic on the workload's own coefficients


def _scalar_family(c):
    """('qw' | 'q' | 'gf', group): operands are paired only within a group,
    so residues of different primes never meet."""
    if isinstance(c, ThetaRational):
        return "qw", 0
    if isinstance(c, Fraction):
        return "q", 0
    if isinstance(c, _ModPBase):
        return "gf", c.p
    return None, None


def _sample(values, k):
    """k values spread evenly over the distinct values sorted by size."""
    distinct = sorted(set(values), key=lambda c: (expect.scalar_bits(c), str(c)))
    if len(distinct) <= k:
        return distinct
    step = len(distinct) / k
    return [distinct[int(i * step)] for i in range(k)]


def _ns_per_op(fn, operands, repeats=5, budget_s=0.02):
    """Median over repeats of calibrated nanoseconds per call of fn over the
    operands (see calibrate.py)."""
    clock = time.perf_counter_ns
    loops = 1
    while True:
        t0 = clock()
        for _ in range(loops):
            fn(operands)
        elapsed = clock() - t0
        if elapsed >= budget_s * 1e9 or loops >= 1 << 16:
            break
        loops *= 2
    samples = []
    for _ in range(repeats):
        before = calibrate.sample()
        t0 = clock()
        for _ in range(loops):
            fn(operands)
        elapsed = clock() - t0
        speed = calibrate.REF_NOMINAL_S / ((before + calibrate.sample()) / 2)
        samples.append(elapsed * speed / (loops * len(operands)))
    samples.sort()
    return samples[len(samples) // 2]


def _mul(pairs):
    for x, y in pairs:
        x * y


def _add(pairs):
    for x, y in pairs:
        x + y


def _inv(pairs):
    for x, _ in pairs:
        x.inverse()


def scalar_timings(values, k=32):
    """ns per *, + and inverse on coefficients taken from the outputs; 0 for a
    scalar type the workload does not produce."""
    groups = defaultdict(list)
    for c in values:
        key = _scalar_family(c)
        if key[0] and c:
            groups[key].append(c)
    pairs_by_family = defaultdict(list)
    for (fam, _), group in sorted(groups.items(), key=lambda kv: str(kv[0])):
        sample = _sample(group, k)
        pairs_by_family[fam] += zip(sample, sample[1:] + sample[:1])
    out = {}
    for fam, metrics in (("qw", ("mul", "add", "inv")), ("q", ("mul",)), ("gf", ("mul",))):
        pairs = pairs_by_family[fam]
        for op in metrics:
            fn = {"mul": _mul, "add": _add, "inv": _inv}[op]
            out[f"scalars.{fam}.{op}_ns"] = _ns_per_op(fn, pairs) if pairs else 0.0
    return out
