"""The four seeded workloads: inputs, operations and their checks.

`build(name, seed, root, cli_refs)` turns a seed into a list of operations.
The program receives only what is generated here: presentations, parameter
triples and argv lists. Each operation's `run` is what gets timed; its
`check` runs after the pass, untimed, and returns an error string or None.

Library functions are always looked up as module attributes at call time
(`groebner.complete`, not a bound name), so the traced run can wrap them.
"""

import contextlib
import io
import random
import subprocess
import sys

from ncquad import cli, groebner, quadratic, sklyanin
from ncquad.scalars import GF, QQ, QQ_THETA, ThetaRational

import expect

WORKLOADS = ("complete_gf31", "complete_qw", "certify", "sklyanin_queries")

F31 = GF(31)
F_BIG = GF(1000003)

# certify: the shipped corpus with the series class of each file, and the
# degree at which three of them are also counted against a closed form
CORPUS = {
    "free.alg": "free",
    "quantum_1_1_0.alg": "binomial",
    "sklyanin_0_0_1.alg": "monomial",
    "sklyanin_1_0_0.alg": "monomial",
    "sklyanin_1_2_1.alg": "binomial",
    "sklyanin_1_w_2.alg": "binomial",
    "w.alg": "w",
    "w_dual.alg": "w_dual",
}
HIGH_DEGREE = {"free.alg": 12, "sklyanin_0_0_1.alg": 16, "w.alg": 14}
ORACLE_DEGREE = 6
ANNIHILATOR_DEGREES = range(1, 6)

# sklyanin_queries: the README's command lines, run in process
CLI_COMMANDS = (
    ("gb", "presentations/w.alg", "--deg", "6"),
    ("hilbert", "presentations/sklyanin_1_2_1.alg", "--deg", "5"),
    ("oracle", "presentations/w.alg", "--deg", "4"),
    ("dual", "presentations/sklyanin_0_0_1.alg"),
    ("koszul", "presentations/w.alg", "--deg", "6"),
    ("sklyanin", "classify", "2", "-1", "-1"),
    ("sklyanin", "iso", "1", "2", "1", "2", "1", "1"),
    ("sklyanin", "orbit", "2", "3"),
    ("sklyanin", "chain", "1", "2"),
    ("sklyanin", "recursion", "0", "1", "--field", "Q"),
)
# operations per (field, query kind) in one pass. Counts are fixed so every
# seed gives the same mix: the fast ones (GF(31), Q(w) classify/recursion,
# the light CLI commands) stay below the median, which then falls inside the
# Q(w) iso/orbit/chain mode; the 13 GF(1000003) queries, each paying the
# O(p) cube-root scan, hold the tail (the 11th slowest operation).
QUERY_MIX = {
    "Q(w)": {"classify": 6, "recursion": 4, "orbit": 10, "iso_pos": 10, "iso_neg": 10, "chain": 10},
    "GF(31)": {"classify": 4, "recursion": 4, "orbit": 3, "iso_pos": 3, "iso_neg": 3, "chain": 3},
    "GF(1000003)": {"classify": 3, "orbit": 3, "iso_pos": 3, "iso_neg": 2, "chain": 2},
}
FIELDS = {"Q(w)": QQ_THETA, "GF(31)": F31, "GF(1000003)": F_BIG}


class Op:
    """One timed operation: `run()` returns a result, `check(result)` returns
    an error string or None, `scalars(result)` yields output coefficients."""

    __slots__ = ("kind", "label", "run", "check", "scalars")

    def __init__(self, kind, label, run, check, scalars=None):
        self.kind = kind
        self.label = label
        self.run = run
        self.check = check
        self.scalars = scalars or (lambda result: ())


def basis_scalars(bases):
    for g in bases:
        for e in g.elements:
            yield from e.terms.values()


def sub_scalars(subs):
    for s in subs:
        if s is not None:
            for row in s.matrix:
                yield from row


def build(name, seed, root, cli_refs=None):
    """The operation list of one pass. `cli_refs` maps each CLI argv to its
    reference stdout; without it the CLI operations fail their check."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sklyanin_queries":
        return _build_sklyanin_queries(rng, cli_refs or {})
    return _GENERATORS[name](rng, root)


# ---------------------------------------------------------------------------
# complete_gf31: staircase presentations from the substitution chain


def _chain_branch(field, a, b):
    """The substitution chain of (a, b) and the recursion step k at which it
    enters the finite branch, or None if it stays generic through k = 6."""
    res = sklyanin.substitution_chain(field, a, b)
    states = sklyanin.coefficient_recursion(field, res.alpha, res.gamma, 6)
    generic = states[-1].outcome.value == "Continue" and len(states) == 7
    return res, None if generic else states[-1].k


def _staircase_instances(rng):
    """Three generic-branch pairs and one pair for each of k = 2 and 5, where
    most finite-branch GF(31) pairs enter it, so every seed has the same mix.
    (The 3% entering at k = 0 take 0.04 s; waiting for one would make set-up
    time depend on the seed.)"""
    quota = {None: 3, 2: 1, 5: 1}
    pairs = [(a, b) for a in range(31) for b in range(31)]
    rng.shuffle(pairs)
    out = []
    for a, b in pairs:
        a, b = F31.from_int(a), F31.from_int(b)
        if not sklyanin.in_m_set(F31, a, b) or not (a + b) or a**3 == b**3:
            continue
        res, branch = _chain_branch(F31, a, b)
        if quota.get(branch, 0) > 0:
            quota[branch] -= 1
            out.append((a, b, res.alpha, res.gamma, branch))
            if not any(quota.values()):
                return out
    raise RuntimeError(f"GF(31) has no admissible pairs left for {quota}")


def _complete_op(kind, label, pres, degree, expected, extra_check=None):
    def run():
        g = groebner.complete(pres, degree)
        return g, groebner.hilbert_coeffs(g, degree)

    def check(result):
        g, h = result
        if h != expected:
            return f"series {h} != {expected}"
        return extra_check(g) if extra_check else None

    return Op(kind, label, run, check, lambda result: basis_scalars([result[0]]))


def _build_complete_gf31(rng, root):
    degree = 8
    ops = []
    for a, b, alpha, gamma, branch in _staircase_instances(rng):
        pres = sklyanin.staircase_presentation(F31, alpha, gamma)

        def words_check(g):
            for d in range(degree + 1):
                if groebner.normal_words(g, d) != sklyanin.expected_normal_words(d):
                    return f"normal words differ from the recursion route at degree {d}"
            return None

        label = f"GF(31) pair ({a}, {b}) " + ("generic" if branch is None else f"finite k={branch}")
        ops.append(
            _complete_op(
                "complete", label, pres, degree, expect.binomial_series(degree),
                words_check if branch is None else None,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# complete_qw: Sklyanin triples over Q(w)


def _qw(rng):
    return ThetaRational(rng.randint(-4, 4), rng.randint(-4, 4))


def _qw_triples(rng):
    """Six generic triples with integer parts in [-4, 4], no parameter zero,
    whose chain stays in the generic branch (about 1 s each at D=8; the
    others take 0.01-0.2 s and would make the pass length depend on the
    seed), one quantum-plane triple (r = 0) and one monomial triple with
    equal cubes."""
    out = []
    while len(out) < 6:
        p, q, r = _full_generic_triple(rng, QQ_THETA)
        a, b = p / r, q / r
        if (a + b) and a**3 != b**3 and _chain_branch(QQ_THETA, a, b)[1] is None:
            out.append((p, q, r))
    while True:
        t = (_random_nonzero(rng, QQ_THETA), _random_nonzero(rng, QQ_THETA), QQ_THETA.zero)
        if expect.sklyanin_class(*t) == "quantum":
            out.append(t)
            break
    w = QQ_THETA.theta()
    c = _random_nonzero(rng, QQ_THETA)
    out.append((c, c * w ** rng.randrange(3), c * w ** rng.randrange(3)))
    return out


def _build_complete_qw(rng, root):
    degree = 8
    ops = []
    for p, q, r in _qw_triples(rng):
        kind = expect.sklyanin_class(p, q, r)
        pres = sklyanin.sklyanin_presentation(QQ_THETA, p, q, r)
        expected = expect.SERIES[expect.series_class(kind)](degree)
        label = f"Q(w) triple ({p}, {q}, {r}) {kind}"
        ops.append(_complete_op("complete", label, pres, degree, expected))
    return ops


# ---------------------------------------------------------------------------
# certify: dimensions, high-degree series and Koszul data per presentation


def _certify_op(label, pres, series_kind, high_degree):
    defect, hyp, ann = expect.KOSZUL[series_kind]
    series = expect.SERIES[series_kind]

    def run():
        oracle = [groebner.graded_dim_oracle(pres, d) for d in range(ORACLE_DEGREE + 1)]
        g = groebner.complete(pres, ORACLE_DEGREE)
        basis_count = groebner.hilbert_coeffs(g, ORACLE_DEGREE)
        high = None
        if high_degree:
            high = groebner.hilbert_coeffs(groebner.complete(pres, high_degree), high_degree)
        alg = quadratic.QuadraticAlgebra(pres)
        d = quadratic.dual_hypotheses(alg)
        return {
            "basis": g,
            "oracle": oracle,
            "count": basis_count,
            "high": high,
            "defect": quadratic.koszul_defect(alg, ORACLE_DEGREE),
            "hyp": (d.dual4_zero, d.dual3_dim, d.no_dual_degree1_left_annihilator,
                    d.no_dual_degree1_right_annihilator),
            "ann": [quadratic.right_annihilator_dim(alg, k) for k in ANNIHILATOR_DEGREES],
        }

    def check(res):
        if res["oracle"] != res["count"]:
            return f"oracle {res['oracle']} != basis count {res['count']}"
        if res["count"] != series(ORACLE_DEGREE):
            return f"series {res['count']} != closed form {series(ORACLE_DEGREE)}"
        if high_degree and res["high"] != series(high_degree):
            return f"degree-{high_degree} series differs from the closed form"
        got = (res["defect"], res["hyp"], res["ann"])
        if got != (defect, hyp, ann):
            return f"Koszul data {got} != {(defect, hyp, ann)}"
        return None

    return Op("certify", label, run, check, lambda res: basis_scalars([res["basis"]]))


def _build_certify(rng, root):
    ops = []
    for name, series_kind in CORPUS.items():
        text = (root / "presentations" / name).read_text(encoding="utf-8")
        pres = cli.parse_presentation(text)
        ops.append(_certify_op(name, pres, series_kind, HIGH_DEGREE.get(name)))
    for field in (F31, QQ):
        p, q, r = _full_generic_triple(rng, field)
        pres = sklyanin.sklyanin_presentation(field, p, q, r)
        ops.append(_certify_op(f"{field.name()} triple ({p}, {q}, {r})", pres, "binomial", None))
    return ops


# ---------------------------------------------------------------------------
# sklyanin_queries: classification, isomorphism, orbits, chains, CLI


def _random_scalar(rng, field):
    """Uniform over GF(p); integer parts in [-4, 4] over Q and Q(w)."""
    if field is QQ_THETA:
        return _qw(rng)
    if field is QQ:
        return QQ.from_int(rng.randint(-4, 4))
    return field.from_int(rng.randrange(field.characteristic()))


def _random_nonzero(rng, field):
    while True:
        c = _random_scalar(rng, field)
        if c:
            return c


def _random_triple(rng, field, kind=None):
    while True:
        t = tuple(_random_scalar(rng, field) for _ in range(3))
        if kind is None or expect.sklyanin_class(*t) == kind:
            return t


def _full_generic_triple(rng, field):
    """A generic triple with p, q, r all nonzero: with p = 0 or q = 0 the
    relations are nearly monomial and the work drops tenfold, which would
    make the pass length depend on the seed."""
    while True:
        p, q, r = _random_triple(rng, field, "generic")
        if p and q:
            return p, q, r


def _chain_pair(rng, field):
    """A generic normalized pair the substitution chain accepts."""
    while True:
        p, q, r = _random_triple(rng, field, "generic")
        a, b = p / r, q / r
        if (a + b) and a**3 != b**3:
            return a, b


def _classify_op(rng, field, label):
    triple = sklyanin.ParamTriple(field, *_random_triple(rng, field))
    kind = expect.sklyanin_class(triple.p, triple.q, triple.r)
    kinds = {
        "free": {"FreeAlgebra"},
        "monomial": {"MonoXX", "MonoXY"},
        "quantum": {"QuantumPoly"},
        "generic": {"GenericM1"},
    }[kind]

    def check(cls):
        if cls.kind.value not in kinds:
            return f"class {cls.kind.value}, expected one of {sorted(kinds)}"
        if kind == "generic" and cls.pair != (triple.p / triple.r, triple.q / triple.r):
            return "normalized pair differs"
        if not expect.transports(cls.witness, triple.presentation(), cls.canonical.presentation()):
            return "witness does not carry the triple onto its canonical form"
        return None

    return Op("classify", label, lambda: sklyanin.classify(triple), check,
              lambda cls: sub_scalars([cls.witness]))


def _iso_op(rng, field, label, positive):
    th = expect.cube_root(field)
    p, q, r = _random_triple(rng, field, "generic")
    source = sklyanin.ParamTriple(field, p, q, r)
    family = expect.orbit_family(p / r, q / r, th, field.one)
    if positive:
        u, v = sorted(family, key=lambda pr: (str(pr[0]), str(pr[1])))[rng.randrange(len(family))]
        lam = _random_nonzero(rng, field)
        target = sklyanin.ParamTriple(field, lam * u, lam * v, lam)
    else:
        while True:
            tp, tq, tr = _random_triple(rng, field, "generic")
            if (tp / tr, tq / tr) not in family:
                break
        target = sklyanin.ParamTriple(field, tp, tq, tr)

    def check(decision):
        if decision.isomorphic is not positive:
            return f"isomorphic={decision.isomorphic}, expected {positive}"
        if positive and not expect.transports(decision.witness, source.presentation(), target.presentation()):
            return "witness does not transport the relation space"
        return None

    return Op("iso_pos" if positive else "iso_neg", label,
              lambda: sklyanin.are_isomorphic(source, target), check,
              lambda decision: sub_scalars([decision.witness]))


def _orbit_op(rng, field, label):
    p, q, r = _random_triple(rng, field, "generic")
    a, b = p / r, q / r
    family = expect.orbit_family(a, b, expect.cube_root(field), field.one)

    def check(orbit):
        if set(orbit) != family or len(orbit) != len(family):
            return f"orbit of {len(orbit)} points differs from the explicit {len(family)}-point family"
        return None

    return Op("orbit", label, lambda: sklyanin.iso_group_orbit(field, a, b), check,
              lambda orbit: (c for pair in orbit for c in pair))


def _chain_op(rng, field, label):
    a, b = _chain_pair(rng, field)
    source = sklyanin.sklyanin_presentation(field, a, b, field.one)

    def check(res):
        if not res.alpha_matches_formula:
            return "alpha disagrees with its closed form"
        target = sklyanin.staircase_presentation(field, res.alpha, res.gamma)
        if not expect.transports(res.composed, source, target):
            return "composed substitution does not reach the staircase relations"
        return None

    return Op("chain", label, lambda: sklyanin.substitution_chain(field, a, b), check,
              lambda res: sub_scalars(res.steps))


def _recursion_op(rng, field, label):
    # the chain that supplies (alpha, gamma) runs here, in set-up
    res = sklyanin.substitution_chain(field, *_chain_pair(rng, field))
    alpha, gamma = res.alpha, res.gamma

    def check(states):
        if not expect.recursion_consistent(states, alpha, gamma):
            return "recursion states do not solve their linear systems"
        return None

    return Op("recursion", label, lambda: sklyanin.coefficient_recursion(field, alpha, gamma, 8), check,
              lambda states: (c for s in states for c in (s.a, s.b)))


def cli_references(root):
    """stdout of each CLI command run as its own process, for byte comparison."""
    env = {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin", "LC_ALL": "C.UTF-8"}
    refs = {}
    for argv in CLI_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "ncquad.cli", *argv],
            cwd=root, env=env, capture_output=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"reference run of {' '.join(argv)} exited {proc.returncode}")
        refs[argv] = proc.stdout
    return refs


def _cli_op(argv, reference):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run_command(list(argv))
        return code, buf.getvalue().encode("utf-8")

    def check(result):
        code, out = result
        if code != 0:
            return f"exit status {code}"
        if reference is None or out != reference:
            return "stdout differs from the separate-process reference"
        return None

    return Op("cli", "ncquad " + " ".join(argv), run, check)


_QUERY_KINDS = {
    "classify": _classify_op,
    "iso_pos": lambda rng, field, label: _iso_op(rng, field, label, True),
    "iso_neg": lambda rng, field, label: _iso_op(rng, field, label, False),
    "orbit": _orbit_op,
    "chain": _chain_op,
    "recursion": _recursion_op,
}


def _build_sklyanin_queries(rng, cli_refs):
    ops = []
    for fname, mix in QUERY_MIX.items():
        field = FIELDS[fname]
        for kind, count in mix.items():
            for i in range(count):
                ops.append(_QUERY_KINDS[kind](rng, field, f"{kind} over {fname} #{i}"))
    ops.extend(_cli_op(argv, cli_refs.get(argv)) for argv in CLI_COMMANDS)
    # interleave deterministically so no field or kind runs as one block
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "complete_gf31": _build_complete_gf31,
    "complete_qw": _build_complete_qw,
    "certify": _build_certify,
}
